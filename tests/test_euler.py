"""Twisted Euler classes, anomaly factorization, and the G2-free certificate."""
from fractions import Fraction

import pytest

from ellforge import euler
from ellforge.euler import (
    CertificateReport,
    anomaly_factorization_ok,
    corrected_euler,
    factorization_exact,
    g2_anomaly,
    g2_free_certificate,
    linear_anomaly,
    root_vars,
    twisted_euler,
    whitney_defect,
)
from ellforge.modforms import eisenstein_q, homogeneous_fit
from ellforge.series import MultiSeries, TruncatedSeries
from test_oracles import factor_sigma_product, reduce_su_type


# The classes live in y_j = i F_j with z_j = 2 y_j, so their coefficients
# are rational; the coefficient of F^e is i^|e| times that of y^e.  A class
# is a flat table over (q, y1..ym); slices() reads each root monomial's
# q-series.


def test_twisted_leading_term_is_product_of_roots():
    # (2 y_1)(2 y_2) = -4 F_1 F_2
    tw = twisted_euler(2, 4, 3)
    assert tw.vars == ("q", "y1", "y2")
    lead = tw.slices()[(1, 1)]
    assert lead == TruncatedSeries.const("q", 3, Fraction(4))


def test_twisted_cubic_cross_term():
    # c_1 c_2 2^3 with c_2 = -1/2 from the coordinate expansion: -4 y_1 y_2^2,
    # which is 4i F_1 F_2^2
    tw = twisted_euler(2, 4, 3).slices()
    assert tw[(1, 2)] == TruncatedSeries.const("q", 3, Fraction(-4))
    assert tw[(1, 2)] == tw[(2, 1)]


def test_twisted_builds_the_product_form_once(monkeypatch):
    want = twisted_euler(2, 6, 4)
    calls = []

    def counted(qorder, zorder):
        calls.append((qorder, zorder))
        return factor_sigma_product(qorder, zorder)

    monkeypatch.setattr(euler, "sigma_product", counted)
    assert twisted_euler(2, 6, 4) == want
    assert calls == [(4, 6)]


def test_whitney_builds_the_product_form_once(monkeypatch):
    calls = []

    def counted(qorder, zorder):
        calls.append((qorder, zorder))
        return factor_sigma_product(qorder, zorder)

    monkeypatch.setattr(euler, "sigma_product", counted)
    assert whitney_defect(2, 1, 6, 3).is_zero()
    assert calls == [(3, 6)]


def test_factorization_on_built_classes():
    classes = [build(2, 6, 4) for build in
               (twisted_euler, corrected_euler, linear_anomaly, g2_anomaly)]
    assert factorization_exact(*classes)
    # a class that is off by one coefficient breaks the factorization
    tw, co, lin, g2 = classes
    off = tw + MultiSeries(tw.vars, {(1, 1, 0): 1}, tw.caps, tw.total, tw.tgroup)
    assert not factorization_exact(off, co, lin, g2)
    assert not factorization_exact(tw, co, lin, linear_anomaly(2, 6, 4))


def test_corrected_rank_one_support():
    # first correction enters at z^4, so only exponents 1 mod 4 appear
    co = corrected_euler(1, 10, 8)
    assert sorted(co.slices()) == [(1,), (5,), (7,), (9,)]


def test_factorization_small():
    assert anomaly_factorization_ok(2, 4, 3)


def test_factorization_larger():
    assert anomaly_factorization_ok(2, 8, 5)


def test_linear_anomaly_coefficient():
    la = linear_anomaly(2, 4, 3).slices()
    assert la[(1, 0)] == TruncatedSeries.const("q", 3, Fraction(-1))
    assert la[(0, 1)] == la[(1, 0)]


def test_g2_anomaly_coefficient():
    g = g2_anomaly(2, 4, 3).slices()
    assert g[(2, 0)] == eisenstein_q(2, 3) * Fraction(-4)


def test_certificate_accepts_corrected():
    rep = g2_free_certificate(corrected_euler(1, 10, 8), 1)
    assert isinstance(rep, CertificateReport)
    assert rep.ok
    assert rep.checked == 4
    assert rep.failures == []


def test_certificate_fit_values():
    # normalized y^5 coefficient is exactly -G_4/12
    co = corrected_euler(1, 10, 8).slices()
    r5 = co[(5,)] / 2**5
    assert homogeneous_fit(r5, 4) == {(0, 1, 0): Fraction(-1, 12)}
    # the y^9 coefficient needs the weight-8 relation G_8 = 120 G_4^2
    r9 = co[(9,)] / 2**9
    assert homogeneous_fit(r9, 8) == {(0, 2, 0): Fraction(-5, 2016)}


def test_certificate_rejects_twisted():
    rep = g2_free_certificate(twisted_euler(1, 6, 6), 1)
    assert not rep.ok
    bad = [e for e, _ in rep.failures]
    assert (2,) in bad  # the e^{-z/2} tail has no isobaric expression


def test_certificate_demands_enough_q_terms():
    with pytest.raises(ValueError):
        g2_free_certificate(corrected_euler(1, 10, 1), 1)


def test_whitney_line_times_line():
    assert whitney_defect(1, 1, 6, 4).is_zero()


def test_whitney_rank_two_plus_line():
    assert whitney_defect(2, 1, 6, 3).is_zero()


def test_su_reduction_kills_anomalies():
    one = MultiSeries(("q", "f"), {(0, 0): 1}, caps=(4, 1))
    assert reduce_su_type(linear_anomaly(2, 6, 4)) == one
    assert reduce_su_type(g2_anomaly(2, 6, 4)) == one


def test_su_reduction_identifies_twisted_and_corrected():
    assert reduce_su_type(twisted_euler(2, 6, 4)) == reduce_su_type(
        corrected_euler(2, 6, 4)
    )


def test_su_reduction_requires_rank_two():
    with pytest.raises(ValueError):
        reduce_su_type(twisted_euler(1, 4, 2))


def test_root_vars():
    assert root_vars(3) == ("y1", "y2", "y3")
