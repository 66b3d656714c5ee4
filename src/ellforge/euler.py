"""Twisted Euler classes with nilpotent Chern roots and their anomalies.

A rank-m bundle contributes formal roots F_1..F_m, nilpotent beyond a
chosen total degree.  Polynomials in the roots live in MultiSeries with
q-expansion coefficients; the second period is normalized to 1 and each
root enters the coordinate at z_j = 2 i F_j.  The classes are built in the
rescaled roots y_j = i F_j, so z_j = 2 y_j and every coefficient is a
rational q-series; the variables keep the names F1..Fm.  The coefficient
of F^e is i^|e| times the stored coefficient of y^e, and the command line
applies that power of i when it prints a class.

The twisted class is the coordinate itself over the roots; the corrected
class keeps only the honestly modular part of the exponential (weights
four and up).  Their ratio is a product of two anomaly factors, one
linear in the roots and one proportional to the quasimodular G_2, and
both die on bundles with vanishing first and second Chern character
components.
"""
from __future__ import annotations

from dataclasses import dataclass

from .modforms import eisenstein_q, homogeneous_fit, weight_monomials
from .series import MultiSeries, TruncatedSeries
from .sigma import exp_weight, sigma_product


def root_vars(m: int):
    return tuple(f"F{j}" for j in range(1, m + 1))


def _unit_exp(v, name, k, m):
    e = [0] * m
    e[v.index(name)] = k
    return tuple(e)


def twisted_euler(m: int, degree: int, qorder: int) -> MultiSeries:
    """prod_j sigma(2 y_j), assembled from the product-form z-slices."""
    v = root_vars(m)
    sigma = sigma_product(qorder, degree)
    slices = [sigma.coeff_in("z", k).as_univariate() for k in range(degree + 1)]
    out = MultiSeries.one(v, total=degree)
    for name in v:
        table = {}
        for k in range(1, degree + 1):
            c = slices[k]
            if c.is_zero():
                continue
            table[_unit_exp(v, name, k, m)] = c * 2**k
        out = out * MultiSeries(v, table, total=degree)
    return out


def corrected_euler(m: int, degree: int, qorder: int) -> MultiSeries:
    """prod_j 2 y_j exp(sum_{k>=2} w_k G_2k 4^k y_j^{2k}): the modular part."""
    v = root_vars(m)
    one_q = TruncatedSeries.one("q", qorder)
    out = MultiSeries.one(v, total=degree)
    for name in v:
        arg = MultiSeries.zero(v, total=degree)
        for k in range(2, degree // 2 + 1):
            coeff = eisenstein_q(2 * k, qorder) * (exp_weight(k) * 4**k)
            arg = arg + MultiSeries(v, {_unit_exp(v, name, 2 * k, m): coeff}, total=degree)
        lead = MultiSeries(v, {_unit_exp(v, name, 1, m): one_q * 2}, total=degree)
        out = out * lead * arg.exp()
    return out


def linear_anomaly(m: int, degree: int, qorder: int) -> MultiSeries:
    """exp(-(1/2) sum z_j) = exp(-sum y_j)."""
    v = root_vars(m)
    minus_one = TruncatedSeries.const("q", qorder, -1)
    arg = MultiSeries(
        v, {_unit_exp(v, name, 1, m): minus_one for name in v}, total=degree
    )
    return arg.exp()


def g2_anomaly(m: int, degree: int, qorder: int) -> MultiSeries:
    """exp(-G_2 sum z_j^2) = exp(-4 G_2 sum y_j^2)."""
    v = root_vars(m)
    g2 = eisenstein_q(2, qorder) * -4
    arg = MultiSeries(
        v, {_unit_exp(v, name, 2, m): g2 for name in v}, total=degree
    )
    return arg.exp()


def anomaly_factorization_ok(m: int, degree: int, qorder: int) -> bool:
    """Coefficient-exact check of twisted = corrected * linear * G_2 anomaly."""
    lhs = twisted_euler(m, degree, qorder)
    rhs = (
        corrected_euler(m, degree, qorder)
        * linear_anomaly(m, degree, qorder)
        * g2_anomaly(m, degree, qorder)
    )
    return lhs == rhs


@dataclass
class CertificateReport:
    ok: bool
    checked: int
    failures: list


def g2_free_certificate(cls: MultiSeries, rank: int) -> CertificateReport:
    """Prove every root-monomial coefficient is an isobaric G_4/G_6 polynomial.

    The monomial prod y_j^(k_j) must carry, after stripping the 2^K from
    z = 2y, a q-series equal to a weight (K - rank) polynomial in G_4 and
    G_6, solved exactly; a genuinely quasimodular class fails.
    Demands enough q-coefficients to overdetermine each solve.
    """
    failures = []
    checked = 0
    for e in sorted(cls.coeffs):
        s = cls.coeffs[e]
        k_total = sum(e)
        weight = k_total - rank
        checked += 1
        r = s / 2**k_total
        monos = weight_monomials(weight)
        if r.trunc < len(monos) + 1:
            raise ValueError(
                f"q-order {r.trunc} too small to certify weight {weight}"
            )
        if homogeneous_fit(r, weight) is None:
            failures.append((e, "no isobaric fit"))
    return CertificateReport(not failures, checked, failures)


def whitney_defect(m1: int, m2: int, degree: int, qorder: int) -> MultiSeries:
    """e(V + W) minus e(V) e(W) in the joint root algebra; zero when multiplicative."""
    v = root_vars(m1 + m2)
    total = twisted_euler(m1 + m2, degree, qorder)
    left = twisted_euler(m1, degree, qorder).lift(v, total=degree)
    right = (
        twisted_euler(m2, degree, qorder)
        .rename({f"F{j}": f"F{m1 + j}" for j in range(1, m2 + 1)})
        .lift(v, total=degree)
    )
    return total - left * right


def reduce_su_type(cls: MultiSeries) -> MultiSeries:
    """Quotient a rank-2 class by the ideal (F1 + F2, F1^2 + F2^2).

    In the quotient F2 = -F1 and F1^2 = 0, which kills both anomaly
    factors; only the constant and linear terms survive.
    """
    if cls.vars != ("F1", "F2"):
        raise ValueError("su-type reduction expects roots (F1, F2)")
    f = MultiSeries.gen(("F1",), "F1", caps=(1,))
    return cls.subs({"F1": f, "F2": -f})
