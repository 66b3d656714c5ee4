"""Product vs exponential forms, quasi-periods, and the elliptic group law."""
from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ellforge.modforms import Lattice, eisenstein_q
from ellforge.series import MultiSeries, TruncatedSeries
from ellforge.sigma import (
    EXP_LINEAR,
    QUASI_PERIODS,
    coordinate_num,
    coordinate_w,
    exp_weight,
    fgl_from_coordinate,
    group_law_check,
    invert_coordinate_num,
    quasi_period_measured,
    quasi_period_predicted,
    sigma_exponential,
    sigma_num,
    sigma_product,
    taylor_completion,
    z_coefficients,
)
from test_oracles import log, q_zero_slice


@pytest.fixture(scope="module")
def sigma_law():
    return fgl_from_coordinate("sigma", 10, 6)


def test_cross_form_equality():
    assert sigma_product(6, 8) == sigma_exponential(6, 8)


def test_exponential_constants_regenerate_from_product():
    qorder, zorder = 6, 9
    p = sigma_product(qorder, zorder)
    over_z = MultiSeries(
        ("q", "z"),
        {(e, j - 1): c for (e, j), c in p.coeffs.items()},
        caps=(qorder, zorder - 1),
    )
    logform = log(over_z)
    expected = MultiSeries(
        ("q", "z"), {(0, 1): EXP_LINEAR}, caps=(qorder, zorder - 1)
    )
    for k in range(1, (zorder - 1) // 2 + 1):
        g = eisenstein_q(2 * k, qorder)
        expected = expected + MultiSeries(
            ("q", "z"),
            {(e, 2 * k): exp_weight(k) * c for e, c in g.coeffs.items()},
            caps=(qorder, zorder - 1),
        )
    assert logform == expected


def test_z_coefficient_oracles():
    cs = z_coefficients(6, 4)
    assert cs[0].is_zero()
    assert cs[1] == TruncatedSeries.one("q", 6)
    assert cs[2] == TruncatedSeries("q", 6, {0: Fraction(-1, 2)})
    g2 = eisenstein_q(2, 6)
    assert cs[3] == TruncatedSeries("q", 6, {0: Fraction(1, 8)}) - g2


def test_product_form_gives_same_slices():
    p = sigma_product(5, 4)
    cs = z_coefficients(5, 4)
    for k in range(5):
        assert p.coeff_in("z", k).as_univariate() == cs[k]


def test_completion_tags():
    terms = taylor_completion(8, 5)
    assert [t.tag for t in terms[:4]] == [
        "modular",
        "modular",
        "quasimodular",
        "quasimodular",
    ]
    assert terms[3].series.coeff(1) == -1


# ---------------------------------------------------------------- numerics


LAT = Lattice(complex(0.3, 1.4) * complex(0.9, 0.1), complex(0.9, 0.1))


def test_quasi_period_direction_1():
    z = complex(0.37, 0.21)
    assert abs(quasi_period_measured(1, LAT, z) - 1) < 1e-12
    assert quasi_period_predicted(1, LAT, z) == 1


def test_quasi_period_direction_2():
    z = complex(0.37, 0.21)
    m = quasi_period_measured(2, LAT, z)
    p = quasi_period_predicted(2, LAT, z)
    assert abs(m - p) / abs(p) < 1e-10


def test_quasi_period_frozen_table():
    qp = QUASI_PERIODS[2]
    assert (qp.sign, qp.q_power, qp.z_slope) == (-1, -1, -1)


def test_coordinate_inversion_roundtrip():
    lat = Lattice(2j, 1.0)
    for x in (0.05, 0.2, 0.4 + 0.1j):
        z = invert_coordinate_num(lat, x)
        assert abs(coordinate_num(lat, z) - x) < 1e-13


def test_sigma_num_vanishes_at_lattice_origin():
    assert abs(sigma_num(LAT, 0)) == 0


# ---------------------------------------------------------------- group law


def test_integral_coordinate_is_sigma_at_w_equals_exp_z_minus_one():
    qorder, zorder = 4, 7
    g = coordinate_w("sigma", zorder, qorder)
    assert all(type(c) is int for c in g.coeffs.values())
    caps = (qorder, zorder)
    w = MultiSeries(
        ("q", "z"),
        {(0, j): Fraction(1, math.factorial(j)) for j in range(1, zorder + 1)},
        caps=caps,
    )
    q = MultiSeries.gen(("q", "z"), "q", caps=caps)
    assert g.subs({"w": w, "q": q}) == sigma_product(qorder, zorder)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "sigma"])
def test_zero_degree_law_is_rejected(kind):
    with pytest.raises(ValueError):
        fgl_from_coordinate(kind, 0, 3)


def test_sigma_law_is_integral(sigma_law):
    assert all(type(c) is int for c in sigma_law.table.coeffs.values())


def test_additive_law_is_plain_sum():
    f = fgl_from_coordinate("additive", 8, 4)
    assert dict(f.table.coeffs) == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_multiplicative_law_closed_form():
    f = fgl_from_coordinate("multiplicative", 8, 4)
    assert dict(f.table.coeffs) == {(1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1}


def test_axioms_all_kinds_small():
    for kind in ("additive", "multiplicative", "sigma"):
        f = fgl_from_coordinate(kind, 6, 3)
        assert f.is_unital(), kind
        assert f.is_commutative(), kind
        assert f.is_associative(), kind


def test_extra_y_free_term_or_wrong_x_coefficient_is_not_unital():
    f = fgl_from_coordinate("multiplicative", 4, 2)
    assert f.is_unital()
    for change in ({(2, 0, 0): 1}, {(1, 0, 1): 1}, {(1, 0, 0): 2}):
        bad = replace(f, table=f.table._like({**f.table.coeffs, **change}))
        assert not bad.is_unital(), change


def test_non_integral_coefficient_is_refused_by_the_packed_check():
    f = fgl_from_coordinate("sigma", 6, 3)
    bad = replace(f, table=f.table._like({**f.table.coeffs, (2, 3, 1): Fraction(1, 2)}))
    with pytest.raises(ValueError, match="not an integer"):
        bad.is_associative()


def test_sigma_law_q0_slice_is_multiplicative_type(sigma_law):
    assert dict(q_zero_slice(sigma_law).coeffs) == {
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): -1,
    }


def test_sigma_law_first_q_correction(sigma_law):
    # the law is x + y - xy + O(q); the correction must actually show up
    assert any(e > 0 for (_, _, e) in sigma_law.table.coeffs)
    c11 = sigma_law.coefficient(1, 1)
    assert c11.coeff(0) == -1


def test_evaluate_does_not_depend_on_table_order(sigma_law):
    q = Lattice(2j, 1.0).q
    want = sigma_law.evaluate(0.2, 0.1, q)
    items = list(sigma_law.table.coeffs.items())
    rng = random.Random(0)
    for _ in range(20):
        rng.shuffle(items)
        shuffled = replace(sigma_law, table=sigma_law.table._like(dict(items)))
        assert list(shuffled.table.coeffs) == [e for e, _ in items]
        assert shuffled.evaluate(0.2, 0.1, q) == want  # bit for bit


def test_group_law_residual_and_slope(sigma_law):
    rep = group_law_check(0.2, 0.1, fgl=sigma_law)
    assert rep.residual < 1e-9
    assert abs(rep.slope - 11) < 0.5


def test_fgl_json_roundtrip(sigma_law):
    blob = json.dumps(sigma_law.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["kind"] == "sigma" and data["degree"] == 10
    c = TruncatedSeries.from_json(
        next(e["series"] for e in data["coefficients"] if (e["i"], e["j"]) == (1, 1))
    )
    assert c == sigma_law.coefficient(1, 1)
