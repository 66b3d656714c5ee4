"""Oracle and property tests for the exact series layer."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellforge.equivderham import GradedElement, form_world
from ellforge.series import (
    MultiSeries,
    TruncatedSeries,
    nullspace,
    row_basis,
    rref,
    solve_exact,
)
from test_oracles import Gaussian, I, derivative, log, truncated_exp


def ts(var, trunc, pairs, minexp=0):
    return TruncatedSeries(var, trunc, dict(pairs), minexp)


# ---------------------------------------------------------------- univariate


def test_mul_cancellation():
    a = ts("q", 3, {0: 1, 1: 1})
    b = ts("q", 3, {0: 1, 1: -1})
    assert a * b == ts("q", 3, {0: 1, 2: -1})


def test_mul_telescoping_truncated():
    geo = ts("q", 6, {n: 1 for n in range(7)})
    one_minus = ts("q", 6, {0: 1, 1: -1})
    # (1 + q + ... + q^6)(1 - q) = 1 - q^7, and q^7 is beyond the window
    assert geo * one_minus == TruncatedSeries.one("q", 6)


def test_exp_oracle():
    a = ts("q", 4, {1: 1, 2: 1})
    expect = ts("q", 4, {0: 1, 1: 1, 2: Fraction(3, 2), 3: Fraction(7, 6), 4: Fraction(25, 24)})
    assert truncated_exp(a) == expect


def test_compose_exp_log_cancel():
    n = 6
    em1 = ts("q", n, {k: Fraction(1, __import__("math").factorial(k)) for k in range(1, n + 1)})
    log1p = ts("q", n, {k: Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)})
    assert em1.compose(log1p) == ts("q", n, {1: 1})


def test_reversion_oracle():
    f = ts("z", 4, {1: 1, 2: 1})
    assert f.reversion() == ts("z", 4, {1: 1, 2: -1, 3: 2, 4: -5})


def test_reversion_roundtrip_deeper():
    f = ts("z", 9, {1: 1, 3: -2, 5: Fraction(1, 3)})
    g = f.reversion()
    assert f.compose(g) == ts("z", 9, {1: 1})
    assert g.compose(f) == ts("z", 9, {1: 1})


def test_log_exp_inverse():
    a = ts("q", 8, {1: Fraction(2, 3), 4: -1, 7: Fraction(5, 2)})
    assert log(truncated_exp(a)) == a


def test_laurent_mul():
    a = ts("q", 5, {-1: 1, 0: 1}, minexp=-1)
    b = ts("q", 5, {1: 1, 2: -1})
    assert a * b == ts("q", 5, {0: 1, 2: -1}, minexp=0)


def test_laurent_inverse():
    a = ts("q", 5, {-1: 1, 0: -1}, minexp=-1)
    inv = a.inverse()
    # 1/(q^-1(1 - q)) = q + q^2 + ...
    for e in range(1, 7):
        assert inv.coeff(e) == 1
    assert (a * inv).coeff(0) == 1


def test_inverse_of_unit():
    a = ts("q", 6, {0: 2, 1: 1})
    assert a * a.inverse() == TruncatedSeries.one("q", 6)


def test_derivative():
    a = ts("q", 4, {0: 3, 2: Fraction(1, 2), 4: -1})
    assert derivative(a) == ts("q", 3, {1: 1, 3: -4})


def test_truncation_respected_in_mixed_op():
    hi = ts("q", 10, {n: 1 for n in range(11)})
    lo = ts("q", 4, {0: 1, 1: -1})
    assert (hi * lo).trunc == 4


def test_laurent_floor_enforced():
    with pytest.raises(ValueError):
        ts("q", 0, {-25: 1}, minexp=-25)
    deep = ts("q", 0, {-13: 1}, minexp=-13)
    with pytest.raises(ValueError):
        deep * deep


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        ts("q", 3, {0: 1}) * ts("z", 3, {0: 1})


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        truncated_exp(ts("q", 3, {0: 1, 1: 1}))


def test_str_forms():
    s = ts("q", 5, {0: 1, 2: Fraction(-3, 2)})
    assert str(s) == "1 + -3/2*q^2 + O(q^6)"


# ---------------------------------------------------------------- gaussian

# the Gaussian rationals of tests/test_oracles.py, the oracles' second field


def test_gaussian_basic():
    z = Gaussian(1, 2)
    assert z * z.conjugate() == Fraction(5)
    assert I * I == -1
    assert (Fraction(1) / z) * z == 1
    assert I**3 == Gaussian(0, -1)
    assert complex(z) == 1 + 2j


def test_gaussian_collapse_to_fraction():
    z = Gaussian(2, 3) - Gaussian(0, 3)
    assert isinstance(z, Fraction) and z == 2


def test_gaussian_truth_is_nonzero():
    # `if c` filters must drop a zero Gaussian that was never normalised
    assert not Gaussian(0, 0)
    assert not -Gaussian(0, 0)
    assert Gaussian(0, 1) and Gaussian(Fraction(1, 3), 0)
    row = [Gaussian(0, 0), Gaussian(2, -1), Fraction(0)]
    assert [c for c in row if c] == [Gaussian(2, -1)]


# ------------------------------------------------------ coefficient contract

# every exact object and elimination holds rationals only: ints and Fractions
NON_RATIONALS = {"float": 0.5, "complex": 1j, "gaussian": Gaussian(0, 1)}


def _graded_element(c):
    w = form_world(2)
    (key,) = w.gen("x1").coeffs
    return GradedElement(w, {key: c})


CONSUMERS = {
    "MultiSeries": lambda c: MultiSeries(("z",), {(1,): c}, caps=(3,)),
    "TruncatedSeries": lambda c: ts("z", 3, {1: c}),
    "GradedElement": _graded_element,
    "rref": lambda c: rref([{0: 1, 1: c}], 2),
    "nullspace": lambda c: nullspace([{0: c}], 2),
    "solve_exact": lambda c: solve_exact([{0: 1}], [c], 1),
    "row_basis": lambda c: row_basis([{0: 2}, {1: c}], 2),
}


@pytest.mark.parametrize("kind", NON_RATIONALS)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_non_rational_coefficients_raise_type_error(consumer, kind):
    with pytest.raises(TypeError, match="not a rational"):
        CONSUMERS[consumer](NON_RATIONALS[kind])


@pytest.mark.parametrize("c", [Gaussian(0, 1), 1j, 0.5, "1"])
def test_truncated_series_refuses_non_rational_coefficients(c):
    with pytest.raises(TypeError):
        ts("z", 3, {1: c})
    with pytest.raises(TypeError):
        TruncatedSeries.const("z", 3, c)


def test_multi_series_refuses_series_coefficients():
    # a q-series enters a table as a capped variable q, not as a coefficient
    c = ts("q", 3, {0: 1, 1: 2})
    for exps in ((1,), (5,)):  # kept or cut by the cap, it is refused
        with pytest.raises(TypeError):
            MultiSeries(("z",), {exps: c}, caps=(3,))
    z = MultiSeries.gen(("z",), "z", caps=(3,))
    with pytest.raises(TypeError):
        z * c
    with pytest.raises(TypeError):
        z + c


# ---------------------------------------------------------------- json codec


def test_json_roundtrip_exact():
    s = ts("q", 7, {-2: Fraction(3, 7), 0: 1, 5: Fraction(-1, 2)}, minexp=-2)
    blob = json.dumps(s.to_json(), sort_keys=True)
    back = TruncatedSeries.from_json(json.loads(blob))
    assert back == s
    assert back.trunc == s.trunc and back.minexp == s.minexp
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_json_rejects_unsorted():
    bad = {"var": "q", "min": 0, "trunc": 3, "coeffs": [[2, "1"], [1, "1"]]}
    with pytest.raises(ValueError):
        TruncatedSeries.from_json(bad)


@pytest.mark.parametrize("entry", [[1, "0", "4"], [1], [1, "2", "0"]])
def test_json_rejects_entries_that_are_not_exponent_and_rational(entry):
    # a three-element entry once meant a Gaussian rational; dropping its
    # imaginary part silently would change the series
    bad = {"var": "q", "min": 0, "trunc": 3, "coeffs": [[0, "1"], entry]}
    with pytest.raises(ValueError):
        TruncatedSeries.from_json(bad)


# ---------------------------------------------------------------- properties

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(var="q", trunc=12):
    return st.dictionaries(
        st.integers(min_value=0, max_value=trunc), small_fracs, max_size=6
    ).map(lambda d: TruncatedSeries(var, trunc, d))


@settings(max_examples=60, derandomize=True)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, derandomize=True)
@given(series_strategy())
def test_compute_then_truncate_matches_truncated_compute(a):
    b = TruncatedSeries("q", 12, {0: 1, 1: -1, 3: Fraction(1, 2)})
    full = (a * b).truncate(5)
    short = a.truncate(5) * b.truncate(5)
    assert full == short


@settings(max_examples=60, derandomize=True)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=10), small_fracs, max_size=5)
)
def test_exp_log_property(d):
    a = TruncatedSeries("q", 10, d)
    assert log(truncated_exp(a)) == a


@settings(max_examples=40, derandomize=True)
@given(
    st.dictionaries(st.integers(min_value=2, max_value=8), small_fracs, max_size=4),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]),
)
def test_reversion_property(d, c1):
    f = TruncatedSeries("z", 8, {**{1: c1}, **d})
    g = f.reversion()
    assert f.compose(g) == ts("z", 8, {1: 1})


@settings(max_examples=60, derandomize=True)
@given(series_strategy())
def test_json_roundtrip_property(a):
    assert TruncatedSeries.from_json(a.to_json()) == a


# ---------------------------------------------------------------- multivariate


def test_multi_mul_bivariate():
    x = MultiSeries.gen(("x", "y"), "x", total=4)
    y = MultiSeries.gen(("x", "y"), "y", total=4)
    sq = (x + y) ** 2
    assert sq.coeff((2, 0)) == 1
    assert sq.coeff((1, 1)) == 2
    assert sq.coeff((0, 2)) == 1


def test_multi_total_degree_truncates():
    x = MultiSeries.gen(("x", "y"), "x", total=3)
    y = MultiSeries.gen(("x", "y"), "y", total=3)
    p = (x + y) ** 3
    assert p.coeff((2, 1)) == 3
    assert ((x + y) ** 4).is_zero()


def test_box_caps():
    q = MultiSeries.gen(("q", "z"), "q", caps=(2, 3))
    z = MultiSeries.gen(("q", "z"), "z", caps=(2, 3))
    p = (1 + q * z) ** 4
    assert p.coeff((2, 2)) == 6
    assert p.coeff((3, 3)) == 0  # beyond the q cap


def test_subs_associativity_of_multiplicative_law():
    V = ("x", "y", "w")
    F = MultiSeries(
        ("x", "y"), {(1, 0): 1, (0, 1): 1, (1, 1): 1}, total=6
    )
    x = MultiSeries.gen(V, "x", total=6)
    y = MultiSeries.gen(V, "y", total=6)
    w = MultiSeries.gen(V, "w", total=6)
    inner_xy = F.subs({"x": x, "y": y})
    inner_yw = F.subs({"x": y, "y": w})
    left = F.subs({"x": inner_xy, "y": w})
    right = F.subs({"x": x, "y": inner_yw})
    assert left == right


def test_exp_log_multi():
    x = MultiSeries.gen(("x", "y"), "x", total=5)
    y = MultiSeries.gen(("x", "y"), "y", total=5)
    a = x + 2 * y - x * y
    assert log(a.exp()) == a


def test_ring_coefficients_from_q_series():
    # q is a capped parameter variable; slices() reads the z^k q-series
    z, q = (MultiSeries.gen(("z", "q"), v, caps=(4, 3)) for v in "zq")
    t = ts("q", 3, {1: 1})
    c = z + q * z * z
    g = c.reversion()
    # inverse of z + t z^2 is z - t z^2 + 2 t^2 z^3 - 5 t^3 z^4
    got = g.slices("q")
    assert got[(1,)] == TruncatedSeries.one("q", 3)
    assert got[(2,)] == -t
    assert got[(3,)] == 2 * t * t
    assert got[(4,)] == -5 * t * t * t
    assert c.subs({"z": g, "q": q}) == z


def test_reversion_of_integer_series_stays_exact():
    got = MultiSeries(("z",), {(1,): 2, (2,): 1}, caps=(5,)).reversion()
    want = MultiSeries(("z",), {(1,): Fraction(2), (2,): Fraction(1)}, caps=(5,)).reversion()
    assert not any(isinstance(c, float) for c in got.coeffs.values())
    assert got == want
    assert got.coeff((2,)) == Fraction(-1, 8)


def test_integer_coefficients_stay_integers():
    x = MultiSeries.gen(("x", "y"), "x", total=4)
    y = MultiSeries.gen(("x", "y"), "y", total=4)
    p = (1 + x - 2 * y) ** 3 - x * y
    assert p.coeffs and all(type(c) is int for c in p.coeffs.values())
    assert type(MultiSeries.one(("x",), caps=(2,)).coeff((0,))) is int
    # the Lagrange reversion of x - x^2 is x + x^2 + 2x^3 + 5x^4 (Catalan)
    inv = (x - x * x).coeff_in("y", 0).reversion()
    assert inv.coeffs == {(1,): 1, (2,): 1, (3,): 2, (4,): 5}
    assert all(type(c) is int for c in inv.coeffs.values())


def test_lift_and_rename():
    f = MultiSeries(("x", "y"), {(1, 1): Fraction(2)}, total=4)
    g = f.lift(("x", "y", "w"), total=4)
    assert g.coeff((1, 1, 0)) == 2
    h = f.rename({"y": "t"})
    assert h.vars == ("x", "t")


def test_coeff_in_extraction():
    q = MultiSeries.gen(("q", "z"), "q", caps=(3, 3))
    z = MultiSeries.gen(("q", "z"), "z", caps=(3, 3))
    p = (1 + q) * z + q * q * z * z
    slice1 = p.coeff_in("z", 1)
    assert slice1.coeff((0,)) == 1 and slice1.coeff((1,)) == 1
    assert p.coeff_in("z", 2).coeff((2,)) == 1


def test_mul_rejects_different_total_groups():
    # counted over x only, a's y-exponents are known to any power, but b's
    # stop at y^2: a * b would hold y^3 that b's truncation leaves unknown
    a = MultiSeries(("x", "y"), {(0, 3): 1, (1, 0): 1}, total=2, tgroup=(0,))
    b = MultiSeries(("x", "y"), {(0, 0): 1, (0, 1): 1}, total=2)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="total-degree groups differ"):
            left * right
        with pytest.raises(ValueError, match="total-degree groups differ"):
            left + right


def test_different_groups_without_a_total_still_multiply():
    a = MultiSeries(("x", "y"), {(1, 0): 1}, caps=(2, 2), tgroup=(0,))
    b = MultiSeries(("x", "y"), {(0, 1): 1}, caps=(2, 2))
    assert (a * b).coeffs == {(1, 1): 1} == (b * a).coeffs


def test_subs_rejects_targets_with_different_truncations():
    f = MultiSeries(("x", "y"), {(1, 1): 1}, total=4)
    V = ("u", "v")
    u = MultiSeries.gen(V, "u", total=4)
    for other in (
        MultiSeries.gen(V, "v", total=3),
        MultiSeries.gen(V, "v", caps=(4, 4), total=4),
        MultiSeries.gen(V, "v", total=4, tgroup=(1,)),
    ):
        with pytest.raises(ValueError, match="disagree on truncation"):
            f.subs({"x": u, "y": other})
    assert f.subs({"x": u, "y": MultiSeries.gen(V, "v", total=4)}).coeffs == {(1, 1): 1}
