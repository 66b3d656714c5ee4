"""Eisenstein expansions, the lattice-sum bridge, and weight checks."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellforge.euler import corrected_euler
from ellforge.modforms import (
    Lattice,
    act,
    bernoulli,
    check_weight,
    delta_q,
    divisor_sigma,
    eisenstein_lattice,
    eisenstein_num,
    eisenstein_q,
    g2_anomaly_samples,
    homogeneous_fit,
    g2_lattice,
    lattice_value,
    qpochhammer,
    random_lattice,
    random_unimodular,
)
from ellforge.series import TruncatedSeries
from ellforge.sigma import sigma_exponential
from test_oracles import loop_evaluate


def test_bernoulli_oracle():
    want = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        12: Fraction(-691, 2730),
    }
    for n, v in want.items():
        assert bernoulli(n) == v
    assert bernoulli(3) == 0 and bernoulli(9) == 0


def test_bernoulli_is_memoized():
    first = bernoulli(12)
    hits = bernoulli.cache_info().hits
    assert bernoulli(12) is first
    assert bernoulli.cache_info().hits == hits + 1


def test_expansions_are_memoized_and_left_intact():
    """eisenstein_q and delta_q hand every caller one shared series; after
    the callers that read them have run, each still equals a fresh build."""
    assert eisenstein_q(4, 9) is eisenstein_q(4, 9)
    assert delta_q(9) is delta_q(9)
    sigma_exponential(6, 8)
    corrected_euler(2, 8, 6)
    homogeneous_fit(eisenstein_q(4, 6) * eisenstein_q(6, 6), 10)
    check_weight(lambda lat: eisenstein_lattice(4, lat), 4, count=3)
    check_weight(lambda lat: lattice_value(delta_q(40), 12, lat), 12, count=3)
    for k, n in [(2, 6), (4, 6), (4, 40), (6, 6), (6, 40), (8, 6), (2, 40)]:
        fresh = eisenstein_q.__wrapped__(k, n)
        assert eisenstein_q(k, n).coeffs == fresh.coeffs
        assert eisenstein_q(k, n).trunc == fresh.trunc
    for n in (0, 6, 40):
        fresh = delta_q.__wrapped__(n)
        assert delta_q(n).coeffs == fresh.coeffs
        assert (delta_q(n).trunc, delta_q(n).minexp) == (fresh.trunc, fresh.minexp)


@settings(max_examples=300, derandomize=True)
@given(
    st.dictionaries(
        st.integers(0, 40),
        st.fractions(max_denominator=10**30).filter(lambda c: c != 0)
        | st.integers(-(10**40), 10**40).filter(bool).map(lambda n: Fraction(n, 3**50)),
        max_size=12,
    ),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
def test_evaluate_matches_complex_of_each_coefficient_bit_for_bit(coeffs, x):
    s = TruncatedSeries("q", 40, coeffs)
    got, want = s.evaluate(x), loop_evaluate(s, x)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_divisor_sigma_oracle():
    assert divisor_sigma(1, 6) == 12
    assert divisor_sigma(3, 4) == 73
    assert divisor_sigma(7, 2) == 129
    assert divisor_sigma(0, 12) == 6


def test_g4_expansion():
    g4 = eisenstein_q(4, 5)
    assert g4.coeff(0) == Fraction(1, 240)
    assert [g4.coeff(n) for n in range(1, 6)] == [1, 9, 28, 73, 126]
    # normalization pin: first coefficient over constant term
    assert g4.coeff(1) / g4.coeff(0) == 240


def test_g2_g6_g8_expansions():
    g2 = eisenstein_q(2, 4)
    assert g2.coeff(0) == Fraction(-1, 24)
    assert [g2.coeff(n) for n in range(1, 5)] == [1, 3, 4, 7]
    g6 = eisenstein_q(6, 3)
    assert g6.coeff(0) == Fraction(-1, 504)
    assert [g6.coeff(n) for n in range(1, 4)] == [1, 33, 244]
    g8 = eisenstein_q(8, 2)
    assert g8.coeff(0) == Fraction(1, 480)
    assert g8.coeff(2) == 129


def test_pochhammer_pentagonal():
    p = qpochhammer(7)
    assert {e: c for e, c in p.coeffs.items()} == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}


def test_delta_coefficients():
    d = delta_q(6)
    assert [d.coeff(n) for n in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]
    assert d.coeff(0) == 0


def test_act_validates_determinant():
    lat = Lattice(1.2j, 1.0)
    with pytest.raises(ValueError):
        act((1, 1, 1, 1), 1.0, lat)
    moved = act((1, 1, 0, 1), 1.0, lat)
    assert moved.lam2 == lat.lam2


def test_lattice_orientation_enforced():
    with pytest.raises(ValueError):
        Lattice(-1.2j, 1.0)


def test_lattice_sum_matches_qexpansion_k4():
    lat = Lattice(complex(0.21, 1.37), complex(1.0, -0.2))
    direct = eisenstein_num(4, lat, 300)
    viaq = eisenstein_lattice(4, lat)
    assert abs(direct - viaq) / abs(viaq) < 1e-8


def test_lattice_sum_matches_qexpansion_k6():
    lat = Lattice(complex(-0.1, 1.1), 0.9)
    direct = eisenstein_num(6, lat, 200)
    viaq = eisenstein_lattice(6, lat)
    assert abs(direct - viaq) / abs(viaq) < 1e-8


def test_eisenstein_summed_g2_close():
    lat = Lattice(1.3j, 1.0)
    direct = eisenstein_num(2, lat, 60)
    viaq = g2_lattice(lat)
    assert abs(direct - viaq) / abs(viaq) < 0.05


@pytest.mark.parametrize("M", [0, -3])
def test_eisenstein_num_rejects_bad_cutoffs(M):
    lat = Lattice(1.3j, 1.0)
    for k in (2, 3, 4):
        with pytest.raises(ValueError, match="M >= 1"):
            eisenstein_num(k, lat, M)


def test_eisenstein_num_rejects_divergent_weights():
    lat = Lattice(1.3j, 1.0)
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be"):
            eisenstein_num(k, lat, 10)
    assert eisenstein_num(5, lat, 10) == 0j


def test_weight_law_g4_g6():
    for k in (4, 6):
        rep = check_weight(lambda lat, k=k: eisenstein_lattice(k, lat), k, seed=7)
        assert rep.ok, f"k={k} worst {rep.max_rel}"


def test_weight_law_delta():
    d = delta_q(40)
    rep = check_weight(lambda lat: lattice_value(d, 12, lat), 12, seed=11)
    assert rep.ok, rep.max_rel


def test_g2_breaks_weight_law():
    rep = check_weight(g2_lattice, 2, seed=5)
    assert not rep.ok
    assert rep.max_rel > 1e-3


def test_weight_samples_are_never_translations():
    # every sample of this seed was once a translation (c = 0), which every
    # q-expansion satisfies, so G2 passed the check
    rep = check_weight(g2_lattice, 2, count=10, seed=657807189, tol=1e-9)
    assert not rep.ok
    rng = random.Random(0)
    assert all(random_unimodular(rng, 1j)[2] for _ in range(200))


def test_g2_anomaly_constant():
    rs = g2_anomaly_samples(count=8, seed=3)
    mean = sum(rs) / len(rs)
    assert max(abs(r - mean) for r in rs) < 1e-6 * abs(mean)
    # the measured constant
    assert abs(mean - (-2j * math.pi)) < 1e-6


def test_q_is_exponential_of_tau():
    rng = random.Random(2)
    lat = random_lattice(rng)
    assert cmath.isclose(lat.q, cmath.exp(2j * math.pi * lat.tau))
